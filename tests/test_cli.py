"""Tests for the command-line front end."""

import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinport import cli, reaction
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

    def test_golden_digest(self, tmp_path):
        # Pins the exact protocol bytes: any change to the projection, the
        # correction or the formatting of `spinport teleport` shows here.
        digest = hashlib.sha256()
        for beam in ("x", "-x", "y", "z", "30,40", "120,-75", "90,45"):
            for policy in ("none", "sigma_z", "ry_pi"):
                out = tmp_path / f"{beam}-{policy}"
                assert cli.main(["teleport", f"--beam={beam}", f"--correction={policy}", "--out", str(out)]) == 0
                digest.update(out.read_bytes())
        assert digest.hexdigest() == "e7898c798b4d53009be0a3fa846e1e15b80c3bf695c28eaca083aa81c41b2a57"

    def test_golden_digest_of_json_lines(self, tmp_path):
        # The 21 runs of test_golden_digest in --format jsonl, hashed in the same
        # order as one sha256 over the concatenated files. JSON lines writes repr
        # floats, so a change in the last bit of any amplitude shows here.
        digest = hashlib.sha256()
        for beam in ("x", "-x", "y", "z", "30,40", "120,-75", "90,45"):
            for policy in ("none", "sigma_z", "ry_pi"):
                out = tmp_path / f"{beam}-{policy}.jsonl"
                argv = ["teleport", f"--beam={beam}", f"--correction={policy}", "--format", "jsonl", "--out", str(out)]
                assert cli.main(argv) == 0
                digest.update(out.read_bytes())
        assert digest.hexdigest() == "340ef69f2cc5a61f81597c2f03cc463f2f4cc996f3b2b2b02af8307c4810718d"


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

    def test_repeated_config_key_exits_1(self, capsys, tmp_path):
        path = tmp_path / "repeated.cfg"
        path.write_text("epsilon = 0.2\n# a later edit\nepsilon = 0.3\n")
        assert cli.main(["predict", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config key 'epsilon' repeated on lines 1 and 3" in captured.err

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

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("csv", "57504979ac3ddb919ebc99b28ef3535ddde90ef297baf332ca02236e00d31b05"),
            ("jsonl", "bedfb052ebb8e628f4165445d7b30332486b18e21ab5b21491a459ee62bbf2eb"),
        ],
    )
    def test_golden_digest(self, tmp_path, fmt, digest):
        # Pins predict's bytes over axis and oblique beams, epsilon 0 and 0.3,
        # k != 0 and impure targets. JSON lines writes repr floats, so a change
        # in the last bit shows there even where the 12-digit CSV hides it.
        configs = (
            ["--beam", "x"],
            ["--beam", "y", "--epsilon", "0"],
            ["--beam=-z", "--epsilon", "0.3", "--kyy", "0.25"],
            ["--beam", "30,40", "--kyy", "-0.35"],
            ["--beam", "120,-75", "--magnitude", "0.7", "--epsilon", "0.3", "--target", "0.1,0.85,0.05"],
            ["--beam", "90,45", "--magnitude", "0.55", "--kyy", "0.6", "--target", "0.2,0.7,0.1"],
        )
        hashed = hashlib.sha256()
        for index, flags in enumerate(configs):
            out = tmp_path / str(index)
            assert cli.main(["predict", *flags, "--format", fmt, "--out", str(out)]) == 0
            hashed.update(out.read_bytes())
        assert hashed.hexdigest() == digest


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
    def test_missing_seed_exits_1(self, capsys, tmp_path):
        assert cli.main(["simulate", "--events", "100"]) == 1
        assert "seed" in capsys.readouterr().err
        out = tmp_path / "run"
        assert cli.main(["simulate", "--events", "100", "--out", str(out)]) == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "fmt, events, digest",
        [
            ("csv", "150000", "cd7b2218253dbae219083eabc6bc84035f1354930fb06a83892cf4bc6a224a52"),
            ("jsonl", "70000", "cded6ea88e65e387d78a921e35e1f743abd259ca3479b71cc6f3f89b3e7b575e"),
        ],
    )
    def test_golden_digest_over_several_chunks(self, tmp_path, fmt, events, digest):
        # Both runs span several 16384-event chunks and end inside one, so the
        # chunk boundaries of the default partition are pinned as well.
        out = tmp_path / "run"
        argv = ["simulate", "--seed", "7", "--events", events, "--axes", "x,z", "--epsilon", "0.3"]
        assert cli.main(argv + ["--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "axes, events, digest",
        [
            ("y", "16387", "b9fc57a75957208363fc920a885441358d59e0993575009af3bc6a9aa160192f"),
            ("x,-y,z,-x", "73731", "0ce689e6adfa726d0d1b763ba38f0f84319ef5de102474c7c774e1c919cfe01d"),
        ],
    )
    def test_event_lines_are_the_records_as_json(self, tmp_path, axes, events, digest):
        # Both runs cross write batches (4096 lines) and chunks (16384 events),
        # neither at a multiple of either; one axis and four.
        out = tmp_path / "run"
        argv = ["simulate", "--seed", "11", "--events", events, f"--axes={axes}", "--epsilon", "0.2"]
        assert cli.main(argv + ["--format", "jsonl", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        config = cli.resolve_config({}, {"seed": "11", "events": events, "analyzer_axes": axes, "epsilon": "0.2"})
        expected = [json.dumps({"type": "event", **dataclasses.asdict(r)}) + "\n"
                    for r in reaction.event_records(config)]
        lines = out.read_text().splitlines(keepends=True)
        assert [line for line in lines if line.startswith('{"type": "event"')] == expected

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

    def test_an_undefined_estimate_is_null_in_json_lines_and_nan_in_csv(self, capsys):
        # two events fill the x and y slots of the round robin, so the z axis sees none
        argv = ("simulate", "--events", "2", "--seed", "7", "--axes", "x,y,z")
        code, out = run(capsys, *argv, "--format", "jsonl")
        assert code == 0
        z_line = out.splitlines()[3]
        assert '"p_hat": null, "sigma": null' in z_line and "NaN" not in out
        assert json.loads(z_line) == {"type": "estimate", "axis_x": 0.0, "axis_y": 0.0, "axis_z": 1.0,
                                      "p_hat": None, "sigma": None, "n_events": 0}
        code, out = run(capsys, *argv)
        assert code == 0
        assert (csv_rows(out)[2]["p_hat"], csv_rows(out)[2]["sigma"]) == ("nan", "nan")

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


class TestEventRecordValidation:
    # Tier-1's copy of the perfbench self-test pin on reaction.EventRecord: every JSON-lines event is one
    # record validated once, so an EventRecord.__init__ that skips __post_init__ fails here as well.
    @pytest.fixture
    def validated(self, monkeypatch):
        counts = {"records": 0}
        validate = reaction.EventRecord.__post_init__

        def counting(record):
            counts["records"] += 1
            validate(record)

        monkeypatch.setattr(reaction.EventRecord, "__post_init__", counting)
        return counts

    @pytest.mark.parametrize("fmt, records", [("jsonl", 20000), ("csv", 0)])
    def test_each_json_lines_event_is_validated_once(self, tmp_path, validated, fmt, records):
        # 20000 events cross the 16384-event chunk
        out = tmp_path / "run"
        assert cli.main(["simulate", "--seed", "7", "--events", "20000", "--format", fmt, "--out", str(out)]) == 0
        assert validated["records"] == records

    def test_event_records_validates_each_record_once(self, validated):
        config = ExperimentConfig(events=5000, seed=3)
        assert len(list(reaction.event_records(config, chunk_size=977))) == config.events
        assert validated["records"] == config.events


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


class TestClosedReader:
    @pytest.mark.parametrize(
        "argv, lines_read",
        [
            # ~18 MB of JSON lines, far more than a pipe buffer holds: the reader
            # closes while the writer is still writing
            (["simulate", "--seed", "7", "--events", "200000", "--format", "jsonl"], 1),
            # 1.5 KB, all of it in stdout's buffer: the pipe is closed before
            # the child has imported numpy, so the flush fails
            (["scan"], 0),
        ],
        ids=["jsonl_18mb", "scan_unread"],
    )
    def test_exit_141_with_nothing_on_stderr(self, argv, lines_read):
        src = Path(cli.__file__).resolve().parents[1]
        # stdout buffered, as the installed script runs it
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen([sys.executable, "-m", "spinport.cli", *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env={**env, "PYTHONPATH": str(src)})
        for _ in range(lines_read):
            proc.stdout.readline()
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
        assert (proc.returncode, stderr) == (141, b"")


class TestShutdownFreeze:
    # Importing cli registers gc.freeze to run at interpreter shutdown; main itself never freezes.
    JSONL_DIGEST = "cfd96d615bfda4266fb327a3b790851d95b5c1b8c19302450e72cfdfc92ca724"
    CSV_DIGEST = "4fb9680a6aa00d6ca39c807b5e52e362ceb1d53ea034f7495f3d0aca0b23b626"

    @staticmethod
    def child(*argv: str) -> subprocess.CompletedProcess:
        src = Path(cli.__file__).resolve().parents[1]
        # stdout buffered, as the installed script runs it
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        return subprocess.run([sys.executable, *argv], capture_output=True, timeout=60,
                              env={**env, "PYTHONPATH": str(src)})

    def test_main_in_process_leaves_the_collector_unfrozen(self, tmp_path):
        frozen = gc.get_freeze_count()
        out = tmp_path / "run.csv"
        assert cli.main(["simulate", "--seed", "7", "--events", "2000", "--out", str(out)]) == 0
        assert gc.get_freeze_count() == frozen

    def test_freeze_runs_at_shutdown_and_earlier_handlers_still_run(self):
        # atexit runs handlers last registered first: this one runs after the freeze
        code = "import atexit, gc; atexit.register(lambda: print(gc.get_freeze_count() > 0)); import spinport.cli"
        proc = self.child("-c", code)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"True\n", b"")

    def test_jsonl_file_written_through_out(self, tmp_path):
        out = tmp_path / "run.jsonl"
        proc = self.child("-m", "spinport.cli", "simulate", "--seed", "7", "--events", "20000",
                          "--format", "jsonl", "--out", str(out))
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.JSONL_DIGEST

    def test_csv_through_a_buffered_stdout_pipe(self):
        proc = self.child("-m", "spinport.cli", "simulate", "--seed", "7", "--events", "20000")
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert hashlib.sha256(proc.stdout).hexdigest() == self.CSV_DIGEST


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

    @pytest.mark.parametrize(
        "fmt, digest",
        [("csv", "4b88d812c2e947193dc10779b3d41dae9df96af175a9aa2022fac2b2525266e5"), ("jsonl", "a6affba4865545c75e1946f77844fe581415e79a0e06682f0d01585b9c7d5b9d")],
    )
    def test_golden_digest(self, tmp_path, fmt, digest):
        out = tmp_path / "scan"
        assert cli.main(["scan", "--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

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

    def test_line_without_equals_sign_is_refused(self):
        with pytest.raises(ValueError, match="config line 1 is not 'key = value'"):
            cli.parse_config_text("epsilon 0.2")


class TestConfigSchema:
    def test_fields_follow_the_config_dataclass_in_order(self):
        assert list(cli._CONFIG_FIELDS) == [field.name for field in dataclasses.fields(ExperimentConfig)]

    @pytest.mark.parametrize(
        "flag, key, file_text, flag_text, shown",
        [
            ("--beam", "beam_direction", "x", "z", "0.0,0.0,1.0"),
            ("--magnitude", "beam_magnitude", "0.5", "0.25", "0.25"),
            ("--epsilon", "epsilon", "0.2", "0.1", "0.1"),
            ("--kyy", "k_transfer", "-0.3", "0.2", "0.2"),
            ("--target", "target", "0.1,0.8,0.1", "0.2,0.7,0.1", "0.2,0.7,0.1"),
            ("--events", "events", "200", "300", "300"),
            ("--seed", "seed", "11", "4", "4"),
            ("--axes", "analyzer_axes", "x;0.0,0.6,0.8", "y,z", "0.0,1.0,0.0;0.0,0.0,1.0"),
        ],
    )
    def test_flag_overrides_the_file_value(self, capsys, tmp_path, flag, key, file_text, flag_text, shown):
        path = tmp_path / "run.cfg"
        file_values = {"events": "200", "seed": "3", key: file_text}
        path.write_text("".join(f"{name} = {text}\n" for name, text in file_values.items()))
        code, out = run(capsys, "simulate", "--config", str(path), f"{flag}={flag_text}")
        assert code == 0
        assert manifest_of(out)[key] == shown

    @pytest.mark.parametrize(
        "key, text",
        [("events", "1e5"), ("epsilon", "abc"), ("beam_direction", "1,2"), ("analyzer_axes", "x;q")],
    )
    def test_config_file_value_errors_name_the_key(self, capsys, tmp_path, key, text):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {text}\n")
        assert cli.main(["predict", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config key {key} = {text!r}: " in captured.err

    def test_an_undecodable_config_file_is_named(self, capsys, tmp_path):
        path = tmp_path / "binary.cfg"
        path.write_bytes(b"\xff\xfe")
        assert cli.main(["predict", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("spinport")
        assert str(path) in lines[0]

    @pytest.mark.parametrize(
        "text, shown",
        [
            ("garbage\n", "config line 1 is not 'key = value': 'garbage'"),
            ("bogus = 1\n", "unknown config key 'bogus' on line 1"),
            ("epsilon = 0.2\nepsilon = 0.3\n", "config key 'epsilon' repeated on lines 1 and 2"),
        ],
    )
    def test_a_malformed_config_file_is_named_with_the_line(self, capsys, tmp_path, text, shown):
        path = tmp_path / "malformed.cfg"
        path.write_text(text)
        assert cli.main(["predict", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"spinport: error: config file {str(path)!r}: {shown}\n"

    @pytest.mark.parametrize(
        "text, shown",
        [
            ("epsilon = 1.5\n", "config key epsilon = '1.5': epsilon 1.5 outside [0, 1]"),
            ("beam_magnitude = nan\n", "config key beam_magnitude = 'nan': beam_magnitude nan outside [0, 1]"),
            ("events = 300\nk_transfer = -2\n", "config key k_transfer = '-2': k_transfer -2.0 outside [-1, 1]"),
        ],
    )
    def test_a_config_file_value_out_of_range_is_named_with_the_file(self, capsys, tmp_path, text, shown):
        path = tmp_path / "range.cfg"
        path.write_text(text)
        assert cli.main(["predict", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"spinport: error: config file {str(path)!r}: {shown}\n"

    def test_a_flag_value_out_of_range_names_no_file(self, capsys, tmp_path):
        # the flag overrides the file's epsilon, so the refusal is the flag's, with the bare message
        path = tmp_path / "overridden.cfg"
        path.write_text("epsilon = 2\nbeam_magnitude = 0.5\n")
        for argv in (["predict", "--epsilon", "1.5"], ["predict", "--config", str(path), "--epsilon", "1.5"]):
            assert cli.main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "spinport: error: epsilon 1.5 outside [0, 1]\n"

    def test_a_flag_overrides_an_out_of_range_file_value(self, capsys, tmp_path):
        path = tmp_path / "range.cfg"
        path.write_text("epsilon = 1.5\n")
        code, out = run(capsys, "predict", "--config", str(path), "--epsilon", "0.1")
        assert code == 0
        assert manifest_of(out)["epsilon"] == "0.1"

    @pytest.mark.parametrize(
        "key, text, flag, shown",
        [
            ("events", "1e5", "--events=300", "300"),
            ("epsilon", "abc", "--epsilon=0.1", "0.1"),
            ("beam_direction", "1,2", "--beam=z", "0.0,0.0,1.0"),
            ("analyzer_axes", "x;q", "--axes=y,z", "0.0,1.0,0.0;0.0,0.0,1.0"),
        ],
    )
    def test_a_flag_overrides_a_malformed_file_value(self, capsys, tmp_path, key, text, flag, shown):
        # the keys and texts of test_config_file_value_errors_name_the_key: a file value that a flag
        # replaces is never parsed, just as one out of range is never checked
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {text}\n")
        assert cli.main(["simulate", "--config", str(path), "--seed", "1", flag]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert manifest_of(captured.out)[key] == shown

    @pytest.mark.parametrize("flag, key", [("--events=1e5", "events"), ("--magnitude=abc", "beam_magnitude")])
    def test_flag_value_errors_name_the_key(self, capsys, flag, key):
        assert cli.main(["simulate", "--seed", "1", flag]) == 1
        assert f"config key {key} = " in capsys.readouterr().err

    def test_an_unknown_axis_name_is_named(self, capsys):
        assert cli.main(["simulate", "--seed", "1", "--axes", "x,q"]) == 1
        err = capsys.readouterr().err
        assert "analyzer_axes" in err and "'q'" in err


class TestUsageErrors:
    def test_unknown_flag_exits_1(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["predict", "--frobnicate"])
        assert excinfo.value.code == 1

    def test_missing_required_beam_exits_1(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["teleport"])
        assert excinfo.value.code == 1

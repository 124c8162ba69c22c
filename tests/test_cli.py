"""Tests for the command-line front end."""

import argparse
import csv
import dataclasses
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from golden import GOLDEN, sha256_of
from helpers import event_line
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
    """The table after the manifest, read as CSV: a row wider or narrower than the header fails."""
    rows = list(csv.reader(io.StringIO(body_of(text))))
    assert all(len(row) == len(rows[0]) for row in rows), [len(row) for row in rows]
    return [dict(zip(rows[0], row)) for row in rows[1:]]


_BEAM_HELP = "beam axis (x|y|z, optional sign; write --beam=-x for negative axes) or 'theta,phi' in degrees"
_HELP = (["-h", "--help"], "help", "show this help message and exit", None, argparse.SUPPRESS, False)
_OUTPUT = [
    (["--out"], "out", "output file (default: standard output)", None, None, False),
    (["--format"], "format", "output format", ["csv", "jsonl"], "csv", False),
]
_CONFIG_FLAGS = [
    (["--config"], "config", "flat key = value config file", None, None, False),
    (["--beam"], "beam_direction", _BEAM_HELP, None, None, False),
    (["--magnitude"], "beam_magnitude", "beam polarization magnitude in [0, 1]", None, None, False),
    (["--epsilon"], "epsilon", "contamination fraction of the selected sample", None, None, False),
    (["--kyy"], "k_transfer", "conventional y->y' polarization transfer coefficient", None, None, False),
    (["--target"], "target", "target sublevel populations p+,p0,p-", None, None, False),
]


def argparse_surface(parser: argparse.ArgumentParser) -> list[tuple]:
    """Each action's option strings, dest, help, choices, default and required flag; a subcommand's
    choices are its (name, help) pairs. Read from the actions, not from the help text, whose layout
    differs between Python versions."""
    rows = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            choices = [(choice.dest, choice.help) for choice in action._choices_actions]
        else:
            choices = None if action.choices is None else list(action.choices)
        rows.append((action.option_strings, action.dest, action.help, choices, action.default, action.required))
    return rows


class TestArgparseSurface:
    # Every flag, its config key, help, choices and default, as the parser declares them.
    EXPECTED = {
        None: [
            _HELP,
            (["--version"], "version", "show program's version number and exit", None, argparse.SUPPRESS, False),
            ([], "subcommand", None, [
                ("teleport", "run the post-selected protocol for one beam state"),
                ("predict", "analytic neutron-polarization predictions"),
                ("simulate", "Monte Carlo event sample and polarimetry estimates"),
                ("scan", "correction-policy fidelity scan over the six beam axes"),
            ], None, True),
        ],
        "teleport": [
            _HELP,
            (["--beam"], "beam", _BEAM_HELP, None, None, True),
            (["--correction"], "correction", "correction policy applied to the selected branch",
             ["none", "sigma_z", "ry_pi"], "sigma_z", False),
            *_OUTPUT,
        ],
        "predict": [_HELP, *_CONFIG_FLAGS, *_OUTPUT],
        "simulate": [
            _HELP,
            *_CONFIG_FLAGS,
            (["--events"], "events", "number of events to generate", None, None, False),
            (["--seed"], "seed", "random seed (required)", None, None, False),
            (["--axes"], "analyzer_axes", "comma-separated analyzer axis names, e.g. x,y,z", None, None, False),
            *_OUTPUT,
        ],
        "scan": [_HELP, *_OUTPUT],
    }

    def test_every_parser_declares_the_same_actions(self):
        parser = cli.build_parser()
        subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        surfaces = {None: argparse_surface(parser)}
        surfaces.update((name, argparse_surface(sub)) for name, sub in subcommands.items())
        assert surfaces == self.EXPECTED


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

    @pytest.mark.parametrize("padding", ["", " \t"])
    @pytest.mark.parametrize("name", ["x", "+x", "-x", "y", "+y", "-y", "z", "+z", "-z"])
    def test_every_axis_name_parses_labels_and_leaves_the_table_unchanged(self, name, padding):
        sign = -1.0 if name.startswith("-") else 1.0
        expected = (sign * np.array(reaction.AXIS_VECTORS[name.lstrip("+-")])).tobytes()
        text = padding + name + padding
        direction = cli.parse_beam_spec(text)
        assert direction.tobytes() == expected
        assert cli.beam_label(direction) == name.lstrip("+")
        values = {"beam_direction": text, "analyzer_axes": text}
        for config in (cli.resolve_config(values, {}), cli.resolve_config({}, values)):  # file, then flag grammar
            assert config.beam_direction.tobytes() == config.analyzer_axes[0].tobytes() == expected
        direction[:] = 0.5
        assert cli.parse_beam_spec(text).tobytes() == expected

    @pytest.mark.parametrize("text", ["+-x", "--x", "x+", "xy", ""])
    def test_a_malformed_axis_name_is_refused_naming_its_text(self, text):
        with pytest.raises(ValueError) as excinfo:
            cli.parse_beam_spec(text)
        assert str(excinfo.value) == f"beam spec {text!r} is neither an axis name nor 'theta,phi' in degrees"

    def test_a_beam_near_the_pole_keeps_its_polar_angle(self, capsys):
        assert cli.beam_label(cli.parse_beam_spec("0.000001,30")) == "1e-06,30"
        code, out = run(capsys, "predict", "--beam", "0.000001,30")
        assert code == 0
        assert csv_rows(out)[0]["beam_axis"] == "1e-06,30"


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

    def test_an_oblique_beam_label_is_one_quoted_cell(self, capsys):
        code, out = run(capsys, "predict", "--beam", "120,-75")
        assert code == 0
        assert body_of(out).splitlines()[1].startswith('"120,-75",0.224143868042,')
        rows = csv_rows(out)
        assert [row["beam_axis"] for row in rows] == ["120,-75", "120,-75"]
        assert float(rows[0]["beam_px"]) == pytest.approx(0.224143868042, abs=1e-12)

    @pytest.mark.parametrize(
        "value, cell",
        [("x", "x"), (0.5, "0.5"), (3, "3"), ("30,40", '"30,40"'), ('a "b"', '"a ""b"""'),
         ("a\nb", '"a\nb"'), ("a\rb", '"a\rb"')],
    )
    def test_a_cell_is_quoted_as_rfc_4180_says(self, value, cell):
        assert cli._cell(value) == cell
        assert next(csv.reader(io.StringIO(cell, newline=""))) == [str(value)]

    def test_jsonl_format(self, capsys):
        code, out = run(capsys, "predict", "--beam", "y", "--format", "jsonl")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[0]["type"] == "manifest"
        assert lines[0]["subcommand"] == "predict"
        assert lines[1]["type"] == "prediction"
        assert lines[1]["model"] == "qt"
        assert lines[1]["neutron_py"] == -0.964


class TestSimulateCommand:
    @pytest.mark.parametrize("axes, events", [("y", "16387"), ("x,-y,z,-x", "73731")])
    def test_event_lines_are_the_records_as_json(self, tmp_path, axes, events):
        # The runs of the golden rows simulate_one_axis_jsonl and simulate_four_axes_jsonl: both cross
        # JSON-lines chunks (4096 events, one write each) and simulate's chunks (16384 events), neither
        # at a multiple of either; one axis and four.
        out = tmp_path / "run"
        argv = ["simulate", "--seed", "11", "--events", events, f"--axes={axes}", "--epsilon", "0.2"]
        assert cli.main(argv + ["--format", "jsonl", "--out", str(out)]) == 0
        config = cli.resolve_config({}, {"seed": "11", "events": events, "analyzer_axes": axes, "epsilon": "0.2"})
        expected = list(map(event_line, reaction.event_records(config)))
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
    # record validated once, so an EventRecord.__init__ that skips __post_init__ fails here as well. Each
    # validation appends one byte to a file whose descriptor a forked worker inherits, so the records of
    # both processes are counted; validated() reads the count back.
    @pytest.fixture
    def validated(self, monkeypatch, tmp_path):
        fd = os.open(tmp_path / "validated", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        validate = reaction.EventRecord.__post_init__

        def counting(record):
            os.write(fd, b".")
            validate(record)

        monkeypatch.setattr(reaction.EventRecord, "__post_init__", counting)
        yield lambda: os.fstat(fd).st_size
        os.close(fd)

    @pytest.mark.parametrize("fmt, records", [("jsonl", 20000), ("csv", 0)])
    def test_each_json_lines_event_is_validated_once(self, tmp_path, validated, fmt, records):
        # 20000 events are four whole 4096-event JSON-lines chunks and a partial fifth
        out = tmp_path / "run"
        assert cli.main(["simulate", "--seed", "7", "--events", "20000", "--format", fmt, "--out", str(out)]) == 0
        assert validated() == records

    def test_whole_json_lines_chunks_validate_each_event_once(self, tmp_path, validated):
        # 8192 events are exactly two 4096-event chunks: no partial chunk, and no empty one after them
        out = tmp_path / "run"
        assert cli.main(["simulate", "--seed", "7", "--events", "8192", "--format", "jsonl", "--out", str(out)]) == 0
        assert validated() == 8192

    def test_event_records_validates_each_record_once(self, validated):
        config = ExperimentConfig(events=5000, seed=3)
        assert len(list(reaction.event_records(config, chunk_size=977))) == config.events
        assert validated() == config.events


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"),
                    reason="the JSON-lines worker needs os.fork and os.sched_getaffinity")
class TestEventWorker:
    # A JSON-lines simulate of two or more chunks forks one worker, which formats the odd chunks, when the
    # process may run on two CPUs; with one CPU, or a fork that fails, the parent formats every chunk. Either
    # way the bytes are the golden row's, and the parent reaps the worker however the run ends.
    ROW = GOLDEN["simulate_two_chunks_jsonl"]  # 8192 events: exactly two 4096-event chunks

    @pytest.fixture
    def forks(self, monkeypatch):
        """Two CPUs to run on, and the pid of each process that calls os.fork."""
        callers, fork = [], os.fork

        def counted_fork():
            callers.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", counted_fork)
        return callers

    def golden_run(self, tmp_path) -> bool:
        def output(argv):
            assert cli.main([*argv, "--out", str(tmp_path / "run")]) == 0
            return (tmp_path / "run").read_bytes()

        return sha256_of(self.ROW.runs, output) == self.ROW.digest

    def test_two_processes_give_the_golden_bytes(self, tmp_path, forks):
        assert self.golden_run(tmp_path)
        assert forks == [os.getpid()]
        assert_no_child_process()

    def test_one_cpu_gives_the_same_bytes_from_one_process(self, tmp_path, forks, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert self.golden_run(tmp_path)
        assert forks == []

    def test_a_fork_that_fails_gives_the_same_bytes_from_one_process(self, tmp_path, forks, monkeypatch):
        def failing_fork():
            forks.append(os.getpid())
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", failing_fork)
        assert self.golden_run(tmp_path)
        assert forks == [os.getpid()]
        assert_no_child_process()

    def test_a_closed_reader_exits_141_and_leaves_no_process(self, capsys, monkeypatch, forks):
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        with open(write_fd, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert cli.main(list(self.ROW.runs[0])) == 141
        assert capsys.readouterr().err == ""
        assert forks == [os.getpid()]
        assert_no_child_process()

    def test_a_write_error_exits_1_and_leaves_no_process(self, capsys, forks):
        assert cli.main([*self.ROW.runs[0], "--out", "/dev/full"]) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert forks == [os.getpid()]
        assert_no_child_process()

    @pytest.mark.parametrize("where, status, said", [
        ("formatting", 3, "ended early, with status 3"),  # before the worker sends its chunk
        ("exit", 5, "ended with status 5"),  # after it sent every chunk
    ])
    def test_a_worker_that_fails_is_named_with_its_status(self, tmp_path, capsys, monkeypatch, forks,
                                                          where, status, said):
        parent = os.getpid()
        if where == "formatting":
            chunk_text = cli._chunk_text

            def dies_in_the_worker(records, tails):
                if os.getpid() != parent:
                    os._exit(status)
                return chunk_text(records, tails)

            monkeypatch.setattr(cli, "_chunk_text", dies_in_the_worker)
        else:
            leave = os._exit
            monkeypatch.setattr(os, "_exit", lambda code: leave(status if os.getpid() != parent else code))
        assert cli.main([*self.ROW.runs[0], "--out", str(tmp_path / "run")]) == 1
        assert said in capsys.readouterr().err
        assert forks == [parent]
        assert_no_child_process()


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

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd")
    def test_exit_141_in_process_leaves_no_descriptor_open(self, monkeypatch):
        # main points the closed stdout at devnull, for the flush at exit, and closes the descriptor it opened
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            read_fd, write_fd = os.pipe()
            os.close(read_fd)
            with open(write_fd, "w") as stdout:
                monkeypatch.setattr(sys, "stdout", stdout)
                assert cli.main(["scan"]) == 141
        assert len(os.listdir("/proc/self/fd")) == before


class TestShutdownFreeze:
    # Importing cli registers gc.freeze to run at interpreter shutdown; main itself never freezes.
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
        (argv,), digest = GOLDEN["simulate_jsonl"]
        proc = self.child("-m", "spinport.cli", *argv, "--out", str(out))
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_csv_through_a_buffered_stdout_pipe(self):
        (argv,), digest = GOLDEN["simulate_csv"]
        proc = self.child("-m", "spinport.cli", *argv)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert hashlib.sha256(proc.stdout).hexdigest() == digest


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

    def test_a_byte_order_mark_gives_the_output_of_the_same_file_without_it(self, tmp_path):
        text = b"epsilon = 0.2\nbeam_direction = y\nanalyzer_axes = x;-y\nseed = 5\nevents = 300\n"
        path, out, outputs = tmp_path / "run.cfg", tmp_path / "out", []
        for mark in (b"", b"\xef\xbb\xbf"):
            path.write_bytes(mark + text)
            assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0]

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
        # the keys and texts of the refusals file_events_not_an_int to file_axes_unknown_name in golden.py: a file
        # value that a flag replaces is never parsed, just as one out of range is never checked
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {text}\n")
        assert cli.main(["simulate", "--config", str(path), "--seed", "1", flag]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert manifest_of(captured.out)[key] == shown


class TestUsageErrors:
    def test_unknown_flag_exits_1(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["predict", "--frobnicate"])
        assert excinfo.value.code == 1

    def test_missing_required_beam_exits_1(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["teleport"])
        assert excinfo.value.code == 1

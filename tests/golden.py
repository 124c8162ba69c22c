"""The golden commands and the refusals: seeded ``spinport`` runs and the sha256 of their output, and invalid runs
and the exact error they print.

``GOLDEN`` maps each row's name to one or more ``spinport`` argv lists and their digest: the outputs of
the runs, in order, hashed as one sha256. A digest changes only in a change whose CHANGES.md entry says why.
``REFUSALS`` maps each row's name to one argv, the files it reads, written into a fresh working directory, and
the exact stderr: the run exits 1, writes no stdout and leaves no file besides the row's own. Every digest and
every exit-1 message that the tests and CI check is stated here and nowhere else.

Tier-1 runs every row in process, through ``cli.main``. Run as a script::

    python tests/golden.py

this module runs every row against the installed ``spinport`` found on PATH: each golden row once to
standard output and once through ``--out``, each refusal once. It prints one line per mismatch and exits 1
on any, or when no ``spinport`` is on PATH.
"""

from __future__ import annotations

import hashlib
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

Argv = tuple[str, ...]


class Row(NamedTuple):
    runs: tuple[Argv, ...]
    digest: str


class Refusal(NamedTuple):
    argv: Argv
    files: dict[str, bytes]
    stderr: str

    @property
    def expected(self) -> tuple[int, str, str, list[str]]:  # exit code, stdout, stderr, files left
        return 1, "", self.stderr, sorted(self.files)


def sha256_of(runs: tuple[Argv, ...], output: Callable[[Argv], bytes]) -> str:
    """One sha256 over ``output(argv)`` of each run, in order."""
    hashed = hashlib.sha256()
    for argv in runs:
        hashed.update(output(argv))
    return hashed.hexdigest()


def refusal_outcome(row: Refusal, directory: Path, run: Callable[[Argv], tuple[int, str, str]]):
    """``run(row.argv)``, with ``directory`` holding the row's files, as ``Refusal.expected`` lists its outcome."""
    for name, data in row.files.items():
        (directory / name).write_bytes(data)
    return (*run(row.argv), sorted(path.name for path in directory.iterdir()))


_CSV = ("--format", "csv")
_JSONL = ("--format", "jsonl")
_TELEPORT = tuple(
    ("teleport", f"--beam={beam}", f"--correction={policy}")
    for beam in ("x", "-x", "y", "z", "30,40", "120,-75", "90,45")
    for policy in ("none", "sigma_z", "ry_pi")
)
# axis and oblique beams, epsilon 0 and 0.3, k != 0 and impure targets
_PREDICT = (
    ("predict", "--beam", "x"),
    ("predict", "--beam", "y", "--epsilon", "0"),
    ("predict", "--beam=-z", "--epsilon", "0.3", "--kyy", "0.25"),
    ("predict", "--beam", "30,40", "--kyy", "-0.35"),
    ("predict", "--beam", "120,-75", "--magnitude", "0.7", "--epsilon", "0.3", "--target", "0.1,0.85,0.05"),
    ("predict", "--beam", "90,45", "--magnitude", "0.55", "--kyy", "0.6", "--target", "0.2,0.7,0.1"),
)
_SIMULATE = ("simulate", "--seed", "7", "--events")
_SEVERAL_CHUNKS = ("--axes", "x,z", "--epsilon", "0.3")
_SEED_11 = ("simulate", "--seed", "11", "--epsilon", "0.2", *_JSONL, "--events")
_SIGNED_AXES = (*_SIMULATE, "5000")
_SIGNED_AXES_CFG = str(Path(__file__).resolve().parent / "signed_axes.cfg")  # analyzer_axes = +x; -y ;0,0,1
_OBLIQUE_AXES_CFG = str(Path(__file__).resolve().parent / "oblique_axes.cfg")

# JSON lines write repr floats, so a change in the last bit shows there even where the 12-digit CSV hides it.
GOLDEN = {
    # the exact protocol: projection, correction and formatting, over axis and oblique beams and every policy
    "teleport_csv": Row(_TELEPORT, "e7898c798b4d53009be0a3fa846e1e15b80c3bf695c28eaca083aa81c41b2a57"),
    "teleport_jsonl": Row(tuple(run + _JSONL for run in _TELEPORT),
                          "340ef69f2cc5a61f81597c2f03cc463f2f4cc996f3b2b2b02af8307c4810718d"),
    # one beam off every axis under ry_pi, which scan does not run
    "teleport_oblique_jsonl": Row((("teleport", "--beam", "120,-75", "--correction", "ry_pi", *_JSONL),),
                                  "fb7e5990709ecc237aafbc5587e42d24f5e0227c7d8cbaff76dde3fab7233c29"),
    "predict_csv": Row(tuple(run + _CSV for run in _PREDICT),
                       "0eac9d8e7fa1e52df1dd149b3a9774fbb8ba14d4380071c2c90039bd4351e03d"),
    "predict_jsonl": Row(tuple(run + _JSONL for run in _PREDICT),
                         "bedfb052ebb8e628f4165445d7b30332486b18e21ab5b21491a459ee62bbf2eb"),
    "predict_oblique_jsonl": Row((_PREDICT[4] + _JSONL,),
                                 "89a332804f56b6ae8a5f46be0372e18a45062cda1a92fdaa9cbe70e8085980be"),
    "predict_default_csv": Row((("predict",),), "f3b757ebd8bf6b69f040240b81afa0cbcfba6a4560ce0e9e6d6e876ae6154875"),
    "predict_default_jsonl": Row((("predict", *_JSONL),),
                                 "ff9fa46bb35cf517f570e1188c0c0cd08dc662e8533e03f43a1fdbf219e15759"),
    # the seeded byte contract: sampling, ordering and formatting of simulate
    "simulate_csv": Row(((*_SIMULATE, "20000"),), "4fb9680a6aa00d6ca39c807b5e52e362ceb1d53ea034f7495f3d0aca0b23b626"),
    "simulate_jsonl": Row(((*_SIMULATE, "20000", *_JSONL),),
                          "cfd96d615bfda4266fb327a3b790851d95b5c1b8c19302450e72cfdfc92ca724"),
    # several 16384-event chunks, ending inside one, so the chunk boundaries are pinned as well
    "simulate_chunks_csv": Row(((*_SIMULATE, "150000", *_SEVERAL_CHUNKS),),
                               "cd7b2218253dbae219083eabc6bc84035f1354930fb06a83892cf4bc6a224a52"),
    "simulate_chunks_jsonl": Row(((*_SIMULATE, "70000", *_SEVERAL_CHUNKS, *_JSONL),),
                                 "cded6ea88e65e387d78a921e35e1f743abd259ca3479b71cc6f3f89b3e7b575e"),
    # both cross 4096-event JSON-lines chunks and 16384-event simulate chunks, neither at a multiple of
    # either; one axis and four
    "simulate_one_axis_jsonl": Row(((*_SEED_11, "16387", "--axes=y"),),
                                   "b9fc57a75957208363fc920a885441358d59e0993575009af3bc6a9aa160192f"),
    "simulate_four_axes_jsonl": Row(((*_SEED_11, "73731", "--axes=x,-y,z,-x"),),
                                    "0ce689e6adfa726d0d1b763ba38f0f84319ef5de102474c7c774e1c919cfe01d"),
    # one event is one chunk of one line; 8192 events are exactly two 4096-event chunks
    "simulate_one_event_jsonl": Row(((*_SIMULATE, "1", *_JSONL),),
                                    "385834a7491ebc20efbd925eac3e013a5caed9121d381022c2d380f666bf06cd"),
    "simulate_two_chunks_jsonl": Row(((*_SIMULATE, "8192", *_JSONL),),
                                     "f1202cd622fef0acf8c443cd06ecae94b4a958c6d21414700ae76460ec50f584"),
    # the north star's simulate commands; 1e6 events as JSON lines are 245 chunks, the longest run of the worker
    # that formats every other chunk
    "simulate_1e5_csv": Row(((*_SIMULATE, "100000"),),
                            "da7a73a98ac7cd0c8e9c4c397834c991134289224b2b6ef9b4721841428cddf4"),
    "simulate_1e5_jsonl": Row(((*_SIMULATE, "100000", *_JSONL),),
                              "c7654fe6ad8b583d0e9b0bb3cf214f2732d28c6771b18370710563701178c393"),
    "simulate_1e6_csv": Row(((*_SIMULATE, "1000000"),),
                            "e9c65ce89c85a9224189b8fb20cf7bac69a7def6041d93006d75f83d963568c6"),
    "simulate_1e6_jsonl": Row(((*_SIMULATE, "1000000", *_JSONL),),
                              "271989f16f2e84b5c2c3cb3bb3086741a3fb3343a040b666ce57f9db9678cc3d"),
    # the signed axis names: "+" names, a "-" name, and the same axes as a flag and as config-file text
    "signed_axes_csv": Row((("predict", "--beam=+z"), (*_SIGNED_AXES, "--axes=+x,-y,z"),
                            (*_SIGNED_AXES, "--config", _SIGNED_AXES_CFG)),
                           "ee913a45dd0ca6243e91542d76322c8dec7868582bd71e85234fbd420a510e46"),
    # a whole simulate config from a file: oblique beam and analyzer axes, whose spin table is summed in order
    "oblique_axes_jsonl": Row((("simulate", "--config", _OBLIQUE_AXES_CFG, *_JSONL),),
                              "99a98f772ab4ef6414af38e50ce95b2377f55db0a45c1da91cbc6befb2eb909f"),
    # every axis beam and policy of the exact protocol
    "scan_csv": Row((("scan", *_CSV),), "4b88d812c2e947193dc10779b3d41dae9df96af175a9aa2022fac2b2525266e5"),
    "scan_jsonl": Row((("scan", *_JSONL),), "a6affba4865545c75e1946f77844fe581415e79a0e06682f0d01585b9c7d5b9d"),
}


def _config(name: str, text: bytes, *flags: str) -> tuple[Argv, dict[str, bytes]]:
    """The argv and files of a ``predict`` that reads config file ``name``, which holds ``text``."""
    return ("predict", "--config", name, *flags), {name: text}


# A text that does not parse names its key and text, and its file if it came from one. A parsed value that
# ExperimentConfig refuses does too when it came from a file, and is the bare message when it came from a flag.
# Of several bad values, the first key in field order is named.
REFUSALS = {
    # flag texts that do not parse; --axes reads axis names only, each on its own
    "beam_two_signs": Refusal(("predict", "--beam=+-x"), {},
        "spinport: error: config key beam_direction = '+-x': "
        "beam spec '+-x' is neither an axis name nor 'theta,phi' in degrees\n"),
    "beam_nan_angle": Refusal(("predict", "--beam", "nan,0"), {},
        "spinport: error: config key beam_direction = 'nan,0': beam_direction angles 'nan,0' must be finite degrees\n"),
    "beam_inf_angle": Refusal(("predict", "--beam", "0,inf"), {},
        "spinport: error: config key beam_direction = '0,inf': beam_direction angles '0,inf' must be finite degrees\n"),
    "events_not_an_int": Refusal(("simulate", "--seed", "1", "--events=1e5"), {},
        "spinport: error: config key events = '1e5': invalid literal for int() with base 10: '1e5'\n"),
    "magnitude_not_a_number": Refusal(("simulate", "--seed", "1", "--magnitude=abc"), {},
        "spinport: error: config key beam_magnitude = 'abc': could not convert string to float: 'abc'\n"),
    "axes_unknown_name": Refusal(("simulate", "--seed", "1", "--axes", "x,q"), {},
        "spinport: error: config key analyzer_axes = 'x,q': --axes takes axis names like x,y,z; got 'q'\n"),
    "axes_empty_name": Refusal(("simulate", "--seed", "7", "--events", "10", "--axes=x,,y"), {},
        "spinport: error: config key analyzer_axes = 'x,,y': --axes takes axis names like x,y,z; got ''\n"),
    "axes_two_signs": Refusal(("simulate", "--seed", "1", "--axes=+-x"), {},
        "spinport: error: config key analyzer_axes = '+-x': --axes takes axis names like x,y,z; got '+-x'\n"),
    "axes_double_minus": Refusal(("simulate", "--seed", "1", "--axes=--x"), {},
        "spinport: error: config key analyzer_axes = '--x': --axes takes axis names like x,y,z; got '--x'\n"),
    "axes_trailing_sign": Refusal(("simulate", "--seed", "1", "--axes=x+"), {},
        "spinport: error: config key analyzer_axes = 'x+': --axes takes axis names like x,y,z; got 'x+'\n"),
    "axes_two_names": Refusal(("simulate", "--seed", "1", "--axes=xy"), {},
        "spinport: error: config key analyzer_axes = 'xy': --axes takes axis names like x,y,z; got 'xy'\n"),
    "axes_empty": Refusal(("simulate", "--seed", "1", "--axes="), {},
        "spinport: error: config key analyzer_axes = '': --axes takes axis names like x,y,z; got ''\n"),
    "teleport_beam_unknown": Refusal(("teleport", "--beam", "q"), {},
        "spinport: error: beam spec 'q' is neither an axis name nor 'theta,phi' in degrees\n"),
    # flag values that ExperimentConfig refuses, also over a file's bad value
    "magnitude_nan": Refusal(("predict", "--magnitude", "nan"), {},
        "spinport: error: beam_magnitude nan outside [0, 1]\n"),
    "epsilon_inf": Refusal(("predict", "--epsilon", "inf"), {}, "spinport: error: epsilon inf outside [0, 1]\n"),
    "epsilon_out_of_range": Refusal(("predict", "--epsilon", "1.5"), {},
        "spinport: error: epsilon 1.5 outside [0, 1]\n"),
    "epsilon_over_file": Refusal(*_config("overridden.cfg", b"epsilon = 2\nbeam_magnitude = 0.5\n", "--epsilon", "1.5"),
        "spinport: error: epsilon 1.5 outside [0, 1]\n"),
    "k_transfer_nan": Refusal(("simulate", "--kyy", "nan", "--seed", "1"), {},
        "spinport: error: k_transfer nan outside [-1, 1]\n"),
    "seed_negative": Refusal(("simulate", "--seed", "-1", "--events", "10"), {},
        "spinport: error: seed -1 outside [0, 2**128)\n"),
    "seed_2_128": Refusal(("simulate", "--seed", str(2**128), "--events", "10"), {},
        "spinport: error: seed 340282366920938463463374607431768211456 outside [0, 2**128)\n"),
    # simulate draws nothing without a seed, and leaves no --out file behind
    "seed_missing": Refusal(("simulate", "--events", "100"), {},
        "spinport: error: simulate requires an explicit seed\n"),
    "seed_missing_with_out": Refusal(("simulate", "--events", "100", "--out", "run.csv"), {},
        "spinport: error: simulate requires an explicit seed\n"),
    # a config file that cannot be read, or whose lines are not key = value, once each
    "config_missing": Refusal(("predict", "--config", "absent.cfg"), {},
        "spinport: error: [Errno 2] No such file or directory: 'absent.cfg'\n"),
    "config_empty_path": Refusal(("predict", "--config="), {},
        "spinport: error: [Errno 2] No such file or directory: ''\n"),
    # an empty --out names no file, as an empty --config does, and writes nothing to stdout either
    "out_empty_path": Refusal(("predict", "--out="), {}, "spinport: error: [Errno 2] No such file or directory: ''\n"),
    "out_empty_path_simulate": Refusal(("simulate", "--seed", "7", "--out="), {},
        "spinport: error: [Errno 2] No such file or directory: ''\n"),
    "out_empty_path_teleport": Refusal(("teleport", "--beam", "x", "--out="), {},
        "spinport: error: [Errno 2] No such file or directory: ''\n"),
    "out_empty_path_scan": Refusal(("scan", "--out="), {}, "spinport: error: [Errno 2] No such file or directory: ''\n"),
    # an --out in a directory that does not exist is refused by its path, and creates no directory
    "out_missing_directory": Refusal(("simulate", "--seed", "7", "--events", "10", "--out", "absent/run.csv"), {},
        "spinport: error: [Errno 2] No such file or directory: 'absent/run.csv'\n"),
    "config_not_utf8": Refusal(*_config("binary.cfg", b"\xff\xfe"),
        "spinport: error: config file 'binary.cfg' is not UTF-8 text: "
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"),
    "config_line_without_equals": Refusal(*_config("malformed.cfg", b"garbage\n"),
        "spinport: error: config file 'malformed.cfg': config line 1 is not 'key = value': 'garbage'\n"),
    "config_unknown_key": Refusal(*_config("malformed.cfg", b"bogus = 1\n"),
        "spinport: error: config file 'malformed.cfg': unknown config key 'bogus' on line 1\n"),
    "config_key_repeated": Refusal(*_config("repeated-key.cfg", b"epsilon = 0.2\nepsilon = 0.3\n"),
        "spinport: error: config file 'repeated-key.cfg': config key 'epsilon' repeated on lines 1 and 2\n"),
    "config_key_repeated_after_a_comment": Refusal(
        *_config("repeated.cfg", b"epsilon = 0.2\n# a later edit\nepsilon = 0.3\n"),
        "spinport: error: config file 'repeated.cfg': config key 'epsilon' repeated on lines 1 and 3\n"),
    # config-file texts that do not parse
    "file_events_not_an_int": Refusal(*_config("bad.cfg", b"events = 1e5\n"),
        "spinport: error: config file 'bad.cfg': config key events = '1e5': "
        "invalid literal for int() with base 10: '1e5'\n"),
    "file_epsilon_not_a_number": Refusal(*_config("bad.cfg", b"epsilon = abc\n"),
        "spinport: error: config file 'bad.cfg': config key epsilon = 'abc': "
        "could not convert string to float: 'abc'\n"),
    "file_beam_two_numbers": Refusal(*_config("bad.cfg", b"beam_direction = 1,2\n"),
        "spinport: error: config file 'bad.cfg': config key beam_direction = '1,2': "
        "beam_direction must be three comma-separated numbers, got '1,2'\n"),
    "file_axes_unknown_name": Refusal(*_config("bad.cfg", b"analyzer_axes = x;q\n"),
        "spinport: error: config file 'bad.cfg': config key analyzer_axes = 'x;q': "
        "analyzer axis must be three comma-separated numbers, got 'q'\n"),
    # config-file values that ExperimentConfig refuses; a flag's is named first when its key comes first
    "file_epsilon_out_of_range": Refusal(*_config("range.cfg", b"epsilon = 1.5\n"),
        "spinport: error: config file 'range.cfg': config key epsilon = '1.5': epsilon 1.5 outside [0, 1]\n"),
    "file_magnitude_nan": Refusal(*_config("range.cfg", b"beam_magnitude = nan\n"),
        "spinport: error: config file 'range.cfg': "
        "config key beam_magnitude = 'nan': beam_magnitude nan outside [0, 1]\n"),
    "file_k_transfer_out_of_range": Refusal(*_config("range.cfg", b"events = 300\nk_transfer = -2\n"),
        "spinport: error: config file 'range.cfg': config key k_transfer = '-2': k_transfer -2.0 outside [-1, 1]\n"),
    "file_energy_nan": Refusal(*_config("bad.cfg", b"beam_energy_mev = nan\n"),
        "spinport: error: config file 'bad.cfg': config key beam_energy_mev = 'nan': "
        "beam_energy_mev nan is not a positive finite energy\n"),
    "file_first_key_of_two": Refusal(*_config("range.cfg", b"epsilon = 1.5\nbeam_magnitude = 2\n"),
        "spinport: error: config file 'range.cfg': "
        "config key beam_magnitude = '2': beam_magnitude 2.0 outside [0, 1]\n"),
    "flag_key_before_a_file_key": Refusal(*_config("range.cfg", b"epsilon = 1.5\n", "--magnitude", "2"),
        "spinport: error: beam_magnitude 2.0 outside [0, 1]\n"),
}


def main() -> int:
    spinport = shutil.which("spinport")
    if spinport is None:
        print("golden: no spinport on PATH", file=sys.stderr)
        return 1

    def to_stdout(argv: Argv) -> bytes:
        return subprocess.run([spinport, *argv], stdout=subprocess.PIPE, check=True).stdout

    def through_out(argv: Argv) -> bytes:
        subprocess.run([spinport, *argv, "--out", str(out)], check=True)
        data = out.read_bytes()
        out.unlink()  # each run writes a new file rather than truncating the last one
        return data

    def refused(argv: Argv) -> tuple[int, str, str]:
        run = subprocess.run([spinport, *argv], cwd=workdir, capture_output=True, text=True)
        return run.returncode, run.stdout, run.stderr

    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        for name, row in GOLDEN.items():
            for way, output in (("stdout", to_stdout), ("--out", through_out)):
                try:
                    got = sha256_of(row.runs, output)
                except subprocess.CalledProcessError as error:
                    got = f"exit status {error.returncode} from {' '.join(error.cmd)}"
                if got != row.digest:
                    mismatches += 1
                    print(f"{name} {way}: expected {row.digest}, got {got}")
    for name, refusal in REFUSALS.items():
        with tempfile.TemporaryDirectory() as workdir:
            got = refusal_outcome(refusal, Path(workdir), refused)
        if got != refusal.expected:
            mismatches += 1
            print(f"{name} refusal: expected {refusal.expected}, got {got}")
    print(f"golden: {len(GOLDEN)} rows x 2 ways and {len(REFUSALS)} refusals through {spinport}, "
          f"{mismatches} mismatched")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

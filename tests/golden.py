"""The golden commands: seeded ``spinport`` runs and the sha256 of their output.

``GOLDEN`` maps each row's name to one or more ``spinport`` argv lists and their digest: the outputs of
the runs, in order, hashed as one sha256. Every digest that the tests and CI check is stated here and
nowhere else. A digest changes only in a change whose CHANGES.md entry says why.

Tier-1 runs every row in process, through ``cli.main(argv + ["--out", FILE])``. Run as a script::

    python tests/golden.py

this module runs every row against the installed ``spinport`` found on PATH, once to standard output and
once through ``--out``. It prints one line per mismatch and exits 1 on any, or when no ``spinport`` is
on PATH.
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


def sha256_of(runs: tuple[Argv, ...], output: Callable[[Argv], bytes]) -> str:
    """One sha256 over ``output(argv)`` of each run, in order."""
    hashed = hashlib.sha256()
    for argv in runs:
        hashed.update(output(argv))
    return hashed.hexdigest()


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
    # the north star's simulate commands; 1e6 events as JSON lines take seconds in process and are left out
    "simulate_1e5_csv": Row(((*_SIMULATE, "100000"),),
                            "da7a73a98ac7cd0c8e9c4c397834c991134289224b2b6ef9b4721841428cddf4"),
    "simulate_1e5_jsonl": Row(((*_SIMULATE, "100000", *_JSONL),),
                              "c7654fe6ad8b583d0e9b0bb3cf214f2732d28c6771b18370710563701178c393"),
    "simulate_1e6_csv": Row(((*_SIMULATE, "1000000"),),
                            "e9c65ce89c85a9224189b8fb20cf7bac69a7def6041d93006d75f83d963568c6"),
    # the signed axis names: "+" names, a "-" name, and the same axes as a flag and as config-file text
    "signed_axes_csv": Row((("predict", "--beam=+z"), (*_SIGNED_AXES, "--axes=+x,-y,z"),
                            (*_SIGNED_AXES, "--config", _SIGNED_AXES_CFG)),
                           "ee913a45dd0ca6243e91542d76322c8dec7868582bd71e85234fbd420a510e46"),
    # every axis beam and policy of the exact protocol
    "scan_csv": Row((("scan", *_CSV),), "4b88d812c2e947193dc10779b3d41dae9df96af175a9aa2022fac2b2525266e5"),
    "scan_jsonl": Row((("scan", *_JSONL),), "a6affba4865545c75e1946f77844fe581415e79a0e06682f0d01585b9c7d5b9d"),
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
    print(f"golden: {len(GOLDEN)} rows x 2 ways through {spinport}, {mismatches} mismatched")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

"""Every row of the golden table, run in process, and the rule that its digests are stated nowhere else."""

import re
from pathlib import Path

import pytest

from golden import GOLDEN, sha256_of
from spinport import cli

HEX_DIGEST = re.compile(r"[0-9a-fA-F]{64}")
TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_digest(tmp_path, name):
    out = tmp_path / "out"

    def through_out(argv):
        assert cli.main([*argv, "--out", str(out)]) == 0
        data = out.read_bytes()
        out.unlink()
        return data

    assert sha256_of(GOLDEN[name].runs, through_out) == GOLDEN[name].digest


def test_digests_are_stated_only_in_the_golden_table():
    workflows = sorted((TESTS.parent / ".github" / "workflows").glob("*.yml"))
    assert workflows, "no CI workflow found"
    stray = {path.name: HEX_DIGEST.findall(path.read_text()) for path in [*workflows, *TESTS.glob("test_*.py")]}
    assert not any(stray.values()), stray
    stated = HEX_DIGEST.findall((TESTS / "golden.py").read_text())
    assert sorted(stated) == sorted(row.digest for row in GOLDEN.values())
    assert len(set(stated)) == len(stated)

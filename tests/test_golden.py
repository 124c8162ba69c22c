"""Every row of the golden and refusal tables, run in process, and the rule that their digests and exit-1 messages
are stated nowhere else."""

import re
from pathlib import Path

import pytest

from golden import GOLDEN, REFUSALS, refusal_outcome, sha256_of
from spinport import cli

HEX_DIGEST = re.compile(r"[0-9a-fA-F]{64}")
REFUSAL_TEXT = re.compile(r"spinport:[ ]error:")  # the brackets keep this line from matching itself
TESTS = Path(__file__).resolve().parent
GOLDEN_SOURCE = (TESTS / "golden.py").read_text()


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_digest(tmp_path, name):
    out = tmp_path / "out"

    def through_out(argv):
        assert cli.main([*argv, "--out", str(out)]) == 0
        data = out.read_bytes()
        out.unlink()
        return data

    assert sha256_of(GOLDEN[name].runs, through_out) == GOLDEN[name].digest


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    outcome = refusal_outcome(REFUSALS[name], tmp_path, lambda argv: (cli.main(list(argv)), *capsys.readouterr()))
    assert outcome == REFUSALS[name].expected


def stated_outside_golden(pattern: re.Pattern) -> dict[str, list[str]]:
    workflows = sorted((TESTS.parent / ".github" / "workflows").glob("*.yml"))
    assert workflows, "no CI workflow found"
    paths = [*workflows, *(path for path in TESTS.glob("*.py") if path.name != "golden.py")]
    return {path.name: found for path in paths if (found := pattern.findall(path.read_text()))}


def test_digests_are_stated_only_in_the_golden_table():
    assert stated_outside_golden(HEX_DIGEST) == {}
    stated = HEX_DIGEST.findall(GOLDEN_SOURCE)
    assert sorted(stated) == sorted(row.digest for row in GOLDEN.values())
    assert len(set(stated)) == len(stated)


def test_exit_1_messages_are_stated_only_in_the_refusal_table():
    assert stated_outside_golden(REFUSAL_TEXT) == {}
    # every row's stderr starts with the text, and golden.py states it once per row
    assert all(REFUSAL_TEXT.match(row.stderr) for row in REFUSALS.values())
    assert len(REFUSAL_TEXT.findall(GOLDEN_SOURCE)) == len(REFUSALS)
